#!/usr/bin/env python3
"""Build and run the end-to-end training + serving benchmark.

    python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 e2ebench/run.py --selftest

Run from the repository root. The first call configures and builds
e2ebench (the program's libraries from src/ plus the benchmark) under
.bench_build/e2ebench; later calls rebuild only what changed. The
benchmark then runs with a pinned environment (SPG_PERF=off,
SPG_LOG=quiet, SPG_TRACE unset) and its report is passed through; the
last line of standard output is the JSON result. Any failure exits
non-zero without printing a result.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2ebench")
BINARY = os.path.join(BUILD, "e2ebench")
RUN_TIMEOUT_S = 170


def die(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(1)


def source_id():
    """The git commit when there is one, else a digest of src/."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10)
        if commit.returncode == 0 and commit.stdout.strip():
            return "git:" + commit.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("program sources (src/) not found next to " + HERE)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            die("build step failed: " + " ".join(cmd))


def expected_metrics(traced):
    """Metric names BENCHMARK.json promises for this mode, if present."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if traced else "end_to_end"]]


def check_result(line, traced):
    try:
        result = json.loads(line)
    except ValueError:
        die("last line is not JSON: " + line[:200])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        die("result keys are " + ", ".join(sorted(result)))
    want = expected_metrics(traced)
    if want is not None and sorted(want) != sorted(result["metrics"]):
        die("metrics differ from BENCHMARK.json: missing %s, extra %s" % (
            sorted(set(want) - set(result["metrics"])),
            sorted(set(result["metrics"]) - set(want))))
    for name, metric in result["metrics"].items():
        if not isinstance(metric.get("value"), (int, float)):
            die("metric %s has no numeric value" % name)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and not args.workload:
        die("--workload is required")

    build()
    env = dict(os.environ)
    env.update(SPG_PERF="off", SPG_LOG="quiet", E2E_SOURCE=source_id())
    for name in ("SPG_TRACE", "SPG_TRACE_CAPACITY", "SPG_AFFINITY"):
        env.pop(name, None)
    if args.selftest:
        cmd = [BINARY, "--selftest"]
    else:
        cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace]
    try:
        run = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                             text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("benchmark exceeded %d s" % RUN_TIMEOUT_S)
    lines = run.stdout.rstrip("\n").split("\n")
    if run.returncode != 0:
        sys.stderr.write(run.stdout)
        die("benchmark exited with %d" % run.returncode)
    if args.selftest:
        print("selftest passed")
        return
    check_result(lines[-1], args.trace == "1")
    sys.stdout.write("\n".join(lines) + "\n")
    sys.stdout.flush()


if __name__ == "__main__":
    main()

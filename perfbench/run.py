#!/usr/bin/env python3
"""TER-iDS stream benchmark: build, run one workload, check, report.

Usage (from the repository root):

    python3 perfbench/run.py --workload songs-absorb --seed 20210620 \
        --seconds 45 --trace 0

Builds the engine and the benchmark driver from source (CMake, Release)
into $CARGO_TARGET_DIR or .bench_build, runs the workload in its own
process, and prints as the last stdout line one JSON object
{"correct", "attempted", "failed", "metrics"}: the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1. The
line before it is a "# stamp" JSON line (nproc, compiler, build type,
commit, run facts and the named output checks). Exits non-zero, without a
result line, when the build fails or the result breaks its schema; exits
non-zero after the result line when an output check failed.
"""

import argparse
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME_RE = re.compile(r"^[A-Za-z0-9_.-]+$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
DEFAULT_SEED = 20210620


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configures (once) and builds the driver; returns its path or None."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "terids_perfbench",
                  "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            log("perfbench: build step failed: " + " ".join(cmd))
            return None
    binary = os.path.join(out, "terids_perfbench")
    return binary if os.path.exists(binary) else None


def commit():
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True,
                              timeout=10)
        if proc.returncode == 0:
            return proc.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def validate(result, trace):
    """Schema errors of a result object against BENCHMARK.json."""
    errors = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        errors.append("result keys %s" % sorted(result))
        return errors
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        errors.append("attempted must be a whole number >= 1")
    if not isinstance(result["failed"], int) or result["failed"] < 0:
        errors.append("failed must be a whole number >= 0")
    want = expected_metrics(trace)
    got = result["metrics"]
    for name, unit in want.items():
        if name not in got:
            errors.append("metric %s missing" % name)
        elif got[name].get("unit") != unit:
            errors.append("metric %s unit %r, want %r"
                          % (name, got[name].get("unit"), unit))
    for name, entry in got.items():
        if not NAME_RE.match(name) or not UNIT_RE.match(entry.get("unit", "")):
            errors.append("bad metric name or unit: %s" % name)
        if name not in want:
            errors.append("metric %s not in BENCHMARK.json" % name)
        if not isinstance(entry.get("value"), (int, float)):
            errors.append("metric %s has no numeric value" % name)
    return errors


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: the self-test's reduced inputs")
    args = parser.parse_args()

    binary = build()
    if binary is None:
        return 2
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--size", args.size]
    if args.trace:
        traces = os.path.join(os.path.dirname(build_dir()), "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, "%s-%d.jsonl" % (args.workload, args.seed))]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        log("perfbench: driver printed nothing (exit %d)" % proc.returncode)
        return 2
    try:
        result = json.loads(lines[-1])
    except ValueError:
        log("perfbench: last driver line is not JSON: " + lines[-1])
        return 2
    errors = validate(result, args.trace)
    if errors:
        log("perfbench: result breaks its schema: " + "; ".join(errors))
        return 2

    for line in lines[:-1]:
        if line.startswith("# stamp "):
            stamp = json.loads(line[len("# stamp "):])
            stamp["commit"] = commit()
            stamp["nproc"] = os.cpu_count()
            line = "# stamp " + json.dumps(stamp, sort_keys=True)
        print(line)
    print(json.dumps(result))
    sys.stdout.flush()
    if proc.returncode != 0 or not result["correct"]:
        log("perfbench: output checks failed (driver exit %d)"
            % proc.returncode)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

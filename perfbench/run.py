#!/usr/bin/env python3
"""Runs one workload of the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds the
library, sa_node and the perfbench binary (Release) into .bench_build/perfbench;
later runs rebuild only what changed. The binary's last stdout line is one JSON
object {"correct", "attempted", "failed", "metrics"}; this script checks that
its metric names and units are exactly those BENCHMARK.json declares for the
mode (--trace 0: end_to_end, --trace 1: per_layer) and prints it as the last
line. Exit status is 0 only for a correct, complete result.
"""

import argparse
import json
import math
import os
import re
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    """Configures once, then builds incrementally; output goes to a log."""
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", "4"])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.call(step, stdout=log, stderr=subprocess.STDOUT) != 0:
                with open(log_path) as text:
                    sys.stderr.write(text.read()[-4000:])
                fail("build failed: " + " ".join(step))
    return os.path.join(BUILD, "perfbench")


def stop_group(proc):
    """Kills whatever is left of the binary's process group and reaps it."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass
    proc.wait()


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def declared_metrics(spec, trace):
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(result, expected, trace):
    """Returns a list of problems with the binary's result line."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return ["result keys are %s" % sorted(result)]
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("attempted must be a whole number >= 1")
    if not isinstance(result["failed"], int) or result["failed"] < 0:
        problems.append("failed must be a whole number >= 0")
    if result["correct"] is not True:
        problems.append("a correctness gate failed")
        return problems
    metrics = result["metrics"]
    missing = sorted(set(expected) - set(metrics))
    extra = sorted(set(metrics) - set(expected))
    if missing:
        problems.append("missing metrics: " + ", ".join(missing))
    if extra:
        problems.append("undeclared metrics: " + ", ".join(extra))
    for name, entry in metrics.items():
        if not NAME_RE.match(name):
            problems.append("invalid metric name %r" % name)
        value = entry.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append("%s is not a finite number" % name)
        elif not trace and value <= 0:
            problems.append("end-to-end metric %s is not positive" % name)
        if name in expected and entry.get("unit") != expected[name]:
            problems.append("%s has unit %r, declared %r"
                            % (name, entry.get("unit"), expected[name]))
    return problems


def main():
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")

    binary = build()
    expected = declared_metrics(spec, args.trace)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    # Its own session, so the agents it spawns can be stopped with it.
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, universal_newlines=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stop_group(proc)
        fail("%s did not finish within %d s" % (args.workload, RUN_TIMEOUT_S))
    stop_group(proc)
    lines = stdout.strip().splitlines()
    if not lines:
        fail("%s printed no result (exit %d)" % (args.workload, proc.returncode))
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("last line is not JSON: " + lines[-1])
    problems = check_result(result, expected, args.trace)
    print(lines[-1])
    sys.stdout.flush()
    if problems or proc.returncode != 0:
        fail("; ".join(problems) or "perfbench exited with %d" % proc.returncode)


if __name__ == "__main__":
    main()

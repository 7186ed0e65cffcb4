#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

  python3 perfbench/run.py --workload tune --seed 1 --seconds 20 --trace 0
  python3 perfbench/run.py --steady 10 --workload serve [--trace 0]
  python3 perfbench/run.py --overhead --workload check --seed 3
  python3 perfbench/run.py --selftest

Run from the repository root. The first form builds the benchmark (a
Release build of the repository's core library plus the runner, in
.bench_build), runs one workload and prints per-job rows, notes and, as
the last line, {"correct", "attempted", "failed", "metrics"}. It exits
nonzero when an output check fails. --steady runs one workload on N
seeds and prints each metric's quartile spread beside its bound from
BENCHMARK.json; --overhead runs one seed untraced and traced and prints
the tracing overhead on compiles_per_s; --selftest runs the helper tests.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build")
OUT_DIR = os.path.join(ROOT, ".bench_out")
DATA_DIR = os.path.join(ROOT, "perfbench", "data")
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build(target):
    """Configures once, then builds @target incrementally (output to
    stderr so standard output stays the result stream)."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("no repository sources at " + ROOT
             + " (expected CMakeLists.txt and src/ beside perfbench/)")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
                     BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    command = ["cmake", "--build", BUILD_DIR, "--target", target, "-j", jobs]
    if subprocess.run(command, stdout=sys.stderr).returncode != 0:
        fail("build of " + target + " failed")
    return os.path.join(BUILD_DIR, target)


def git_commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def load_spec():
    with open(BENCHMARK_JSON) as handle:
        return json.load(handle)


def run_once(binary, workload, seed, seconds, trace, echo=True):
    """Runs one workload; returns (exit code, result object or None)."""
    os.makedirs(OUT_DIR, exist_ok=True)
    command = [binary, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--out-dir", OUT_DIR, "--data-dir", DATA_DIR,
               "--git-commit", git_commit()]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s seed %s did not finish within %d s"
             % (workload, seed, RUN_TIMEOUT_S), 1)
    lines = proc.stdout.splitlines()
    if echo:
        sys.stdout.write(proc.stdout)
        sys.stdout.flush()
    if not lines:
        return proc.returncode, None
    try:
        return proc.returncode, json.loads(lines[-1])
    except ValueError:
        return proc.returncode, None


def check_metric_names(result, trace):
    """The runner and BENCHMARK.json must name the same metrics."""
    spec = load_spec()
    listed = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    printed = sorted(result["metrics"])
    if sorted(listed) != printed:
        fail("metric names differ from BENCHMARK.json: listed only %s, "
             "printed only %s" % (sorted(set(listed) - set(printed)),
                                  sorted(set(printed) - set(listed))), 3)


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return middle, q1, q3, (q3 - q1) / middle if middle else 0.0


def steady(binary, args):
    spec = load_spec()
    key = "per_layer" if args.trace else "end_to_end"
    bounds = {m["name"]: m.get("bound") for m in spec[key]}
    seconds = args.seconds or spec["run_seconds"]
    runs = []
    for seed in range(args.first_seed, args.first_seed + args.steady):
        code, result = run_once(binary, args.workload, seed, seconds,
                                args.trace, echo=False)
        if code != 0 or result is None or not result["correct"]:
            fail("%s seed %d failed (exit %d)" % (args.workload, seed, code),
                 1)
        runs.append(result["metrics"])
        print("seed %d: %s" % (seed, " ".join(
            "%s=%.6g" % (name, metric["value"])
            for name, metric in sorted(result["metrics"].items())
            if name in bounds and bounds[name] is not None)), flush=True)
    against = None
    if args.against:
        with open(args.against) as handle:
            against = json.load(handle)["medians"]
    print("%-30s %-7s %14s %9s %7s %7s  %s" % (
        "metric", "unit", "median", "spread", "bound", "bound/3", "verdict"))
    medians = {}
    steady_ok = True
    for name in sorted(bounds):
        values = [run[name]["value"] for run in runs]
        middle, _, _, width = spread(values)
        medians[name] = middle
        bound = bounds[name]
        if bound is None:
            print("%-30s %-7s %14.6g %9.4f" % (
                name, runs[0][name]["unit"], middle, width))
            continue
        verdict = "ok" if width < bound / 3 else (
            "within bound" if width <= bound else "TOO WIDE")
        if name == "setup_s":
            verdict += " (spread not gated)"
        elif width > bound:
            steady_ok = False
        if against is not None and name in against and against[name]:
            better = next(m["better"] for m in spec[key] if m["name"] == name)
            change = (middle - against[name]) / against[name]
            worse = change if better == "lower" else -change
            verdict += "; vs earlier median %+.4f%s" % (
                change, " WORSE" if worse > bound else "")
            steady_ok = steady_ok and worse <= bound
        print("%-30s %-7s %14.6g %9.4f %7.3f %7.3f  %s" % (
            name, runs[0][name]["unit"], middle, width, bound, bound / 3,
            verdict))
    os.makedirs(OUT_DIR, exist_ok=True)
    record = os.path.join(OUT_DIR, "steady-%s-trace%d.json"
                          % (args.workload, args.trace))
    with open(record, "w") as handle:
        json.dump({"workload": args.workload, "seeds": args.steady,
                   "first_seed": args.first_seed, "medians": medians,
                   "runs": runs}, handle, indent=1)
    print("medians written to " + os.path.relpath(record, ROOT))
    return 0 if steady_ok else 1


def overhead(binary, args):
    seconds = args.seconds or load_spec()["run_seconds"]
    values = {}
    for trace in (0, 1):
        code, result = run_once(binary, args.workload, args.seed, seconds,
                                trace, echo=False)
        if code != 0 or result is None:
            fail("%s trace %d failed (exit %d)" % (args.workload, trace, code),
                 1)
        name = "trace.compiles_per_s" if trace else "compiles_per_s"
        values[trace] = result["metrics"][name]["value"]
    print("%s seed %d: compiles_per_s untraced %.6g, traced %.6g, "
          "tracing overhead %+.2f%%" % (
              args.workload, args.seed, values[0], values[1],
              100.0 * (values[0] - values[1]) / values[0]))
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=["tune", "check", "serve"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--steady", type=int, metavar="N",
                        help="run N seeds and print each metric's spread")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--against", metavar="STEADY_JSON",
                        help="compare --steady medians with an earlier "
                             "steady record")
    parser.add_argument("--overhead", action="store_true",
                        help="print the tracing overhead on one seed")
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark helper tests")
    args = parser.parse_args()

    if args.selftest:
        binary = build("perfbench_selftest")
        return subprocess.run([binary]).returncode
    if args.workload is None:
        parser.error("--workload is required")
    binary = build("cimmlc_perfbench")
    if args.steady:
        return steady(binary, args)
    if args.overhead:
        return overhead(binary, args)
    if args.seconds is None:
        parser.error("--seconds is required")
    code, result = run_once(binary, args.workload, args.seed, args.seconds,
                            args.trace)
    if result is None:
        fail("no result from %s (exit %d)" % (args.workload, code), 1)
    check_metric_names(result, args.trace)
    return code


if __name__ == "__main__":
    sys.exit(main())

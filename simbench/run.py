#!/usr/bin/env python3
"""Simulator benchmark: build, run one workload, check, report.

    python3 simbench/run.py --workload fig12 --seed 1 --seconds 25 --trace 0

Builds simbench (CMakeLists.txt here) under .bench_build/ in the
checkout the first time, runs the workload for --seconds in one
process on one thread, checks correctness and determinism, prints a
human-readable report and, as the last line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the gated end-to-end ones
(report.END_TO_END); with --trace 1 they are the per-layer ones
(report.PER_LAYER) from the traced passes. Exits 1 when a correctness
check fails, 2 when the benchmark cannot be built or run. See
README.md for every metric and workload.
"""

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.dont_write_bytecode = True
sys.path.insert(0, HERE)
import report  # noqa: E402

ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "simbench")
WORKLOADS = ("fig12", "paper16x48", "sparse", "explore_sc")
DEFAULT_SEED = 1     # the simulator's own wl.seed default
HELD_OUT_SEED = 7    # kept back for re-checking perf claims
RUN_TIMEOUT_S = 170  # a run must end within 180 s


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            return False
    cmd = ["cmake", "--build", BUILD, "--target", "simbench", "-j",
           str(min(4, os.cpu_count() or 1))]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def cache_value(key):
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
        if r.returncode == 0:
            return r.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown (not a git checkout)"


def fmt(v, unit=""):
    if v is None:
        return "n/a"
    return "%.6g %s" % (v, unit) if unit else "%.6g" % v


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    load_before = os.getloadavg()
    if not build():
        log("simbench: build failed")
        return 2

    out_path = os.path.join(
        ROOT, ".bench_build",
        "simbench-%s-trace%d.json" % (args.workload, args.trace))
    store_dir = os.path.join(ROOT, ".bench_build",
                             "simbench-store-%d" % os.getpid())
    cmd = [os.path.join(BUILD, "simbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", out_path,
           "--store-dir", store_dir]
    try:
        rc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        log("simbench: run exceeded %d s" % RUN_TIMEOUT_S)
        return 2
    finally:
        shutil.rmtree(store_dir, ignore_errors=True)
    if rc != 0:
        log("simbench: run exited with %d" % rc)
        return 2
    with open(out_path) as f:
        doc = json.load(f)
    load_after = os.getloadavg()

    failures = list(doc["failures"])
    attempted, failed = doc["attempted"], doc["failed"]
    det = report.determinism_problems(doc["passes"])
    attempted += 1
    if det:
        failed += 1
        failures += ["determinism: " + d for d in det]
    doc["attempted"], doc["failed"] = attempted, failed

    e2e = report.end_to_end(doc)
    print("== simbench %s  seed=%d  seconds=%g  trace=%d" % (
        args.workload, args.seed, args.seconds, args.trace))
    print("host: cpu=%r nproc=%d load_before=%.2f load_after=%.2f "
          "build=%s compiler=%r commit=%s" % (
              cpu_model(), os.cpu_count() or 0, load_before[0],
              load_after[0], cache_value("CMAKE_BUILD_TYPE"),
              doc["compiler"], commit()))
    print("seeds: wl.seed=%d (default %d, held-out %d)" % (
        args.seed, DEFAULT_SEED, HELD_OUT_SEED))
    print("digest %s seed=%d: %s  (%d cells/pass, runOne check on %s)" % (
        args.workload, args.seed, report.workload_digest(doc["passes"][0]),
        len(doc["passes"][0]["cells"]), doc["composition_cell"] or "n/a"))
    print("end-to-end (median of %d untraced passes):" % e2e["passes"])
    tail = e2e["cell_s_tail"]
    rows = [
        ("wall_s", fmt(e2e["wall_s"], "s")),
        ("wall_norm", fmt(e2e["wall_norm"], "probes") + "  (probe %.4g ms)"
         % (e2e["probe_s"] * 1e3)),
        ("setup_s", fmt(e2e["setup_s"], "s")),
        ("mcyc_per_s", fmt(e2e["mcyc_per_s"], "Mcyc/s")),
        ("kinstr_per_s", fmt(e2e["kinstr_per_s"], "kinstr/s")),
        ("cell_s_p50", fmt(e2e["cell_s_p50"], "s")),
        ("cell_s_tail", "n/a (fewer than 11 cells)" if tail is None else
         "%.6g s  (p%.1f of %d cells)" % tail),
        ("peak_rss_mb", fmt(e2e["peak_rss_mb"], "MB")),
        ("failed_frac", "%.6g  (%d of %d)" % (
            report.ratio(failed, attempted), failed, attempted)),
        ("sim_cycles", fmt(e2e["sim_cycles"], "cycles (simulated)")),
        ("states_per_s", fmt(e2e["states_per_s"], "states/s")),
    ]
    for name, text in rows:
        print("  %-14s %s" % (name, text))

    if args.trace:
        layers = report.per_layer(doc)
        print("per-layer (traced passes; times are self time):")
        for name, unit in report.PER_LAYER.items():
            print("  %-32s %s" % (name, fmt(layers[name], unit)))
        metrics = {n: {"value": layers[n], "unit": u}
                   for n, u in report.PER_LAYER.items()}
    else:
        metrics = {n: {"value": e2e[n], "unit": u}
                   for n, u in report.END_TO_END.items()}

    for f in failures:
        print("FAILED: " + f)
    result = {"correct": not failures, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    problems = report.validate_result(
        result, report.PER_LAYER if args.trace else report.END_TO_END)
    if problems:
        log("simbench: malformed result: " + "; ".join(problems))
        return 2
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

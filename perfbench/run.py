#!/usr/bin/env python3
"""Build and run the iatsim benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload agg_line|cluster4|bakeoff_smoke \
        --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds
perfbench/ (the iatperf program plus the simulator sources it links)
into $CARGO_TARGET_DIR, default .bench_build; later runs rebuild only
what changed. iatperf's own report (checks, digests, detail) and
the host context of the run are printed first; the last line of stdout
is the result: {"correct", "attempted", "failed", "metrics"}, where the
metrics are BENCHMARK.json's end_to_end list (--trace 0) or its
per_layer list (--trace 1). Exit status is non-zero when the build
fails, iatperf fails, or a correctness check fails.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("agg_line", "cluster4", "bakeoff_smoke")
# Worker threads each workload runs (cluster workers, campaign jobs).
THREADS = {"agg_line": 1, "cluster4": 2, "bakeoff_smoke": 2}
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(out):
    """Configure once, then build iatperf (a no-op when current)."""
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", out, "--target", "iatperf",
                  "-j", jobs])
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    for cmd in steps:
        left = deadline - time.monotonic()
        try:
            done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                                  stderr=sys.stderr, timeout=max(1, left))
        except subprocess.TimeoutExpired:
            log("build timed out")
            return False
        if done.returncode != 0:
            log("build failed: " + " ".join(cmd))
            return False
    return True


def host_sample():
    """(load averages, steal ticks) from /proc."""
    with open("/proc/loadavg") as f:
        load = [float(x) for x in f.read().split()[:3]]
    with open("/proc/stat") as f:
        cpu = f.readline().split()
    # cpu user nice system idle iowait irq softirq steal ...
    steal = int(cpu[8]) if len(cpu) > 8 else 0
    return load, steal


def declared(spec, trace):
    return spec["per_layer"] if trace else spec["end_to_end"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        log("cannot read BENCHMARK.json: %s" % e)
        return 1

    out = build_dir()
    if not build(out):
        return 1

    spans = os.path.join(out, "spans-%s-%d.jsonl" % (args.workload, args.seed))
    cmd = [os.path.join(out, "iatperf"),
           "--workload=" + args.workload,
           "--seed=%d" % args.seed,
           "--seconds=%s" % args.seconds,
           "--trace=%d" % args.trace,
           "--spec=" + os.path.join(HERE, "bakeoff_smoke.exp"),
           "--spans=" + spans]
    load0, steal0 = host_sample()
    t0 = time.monotonic()
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("iatperf timed out after %d s" % RUN_TIMEOUT_S)
        return 1
    wall = time.monotonic() - t0
    load1, steal1 = host_sample()

    lines = done.stdout.strip().splitlines()
    try:
        report = json.loads(lines[-1])
    except (IndexError, ValueError):
        log("iatperf printed no report (exit %d)" % done.returncode)
        return 1
    if done.returncode not in (0, 1):
        log("iatperf failed with exit %d" % done.returncode)
        return 1

    # Every declared metric, with the declared unit; a layer the
    # workload does not run reads 0 (its predicted no-change value).
    metrics = {}
    correct = bool(report.get("correct"))
    got = report.get("metrics", {})
    for m in declared(spec, args.trace):
        name, unit = m["name"], m["unit"]
        if name in got:
            if got[name]["unit"] != unit:
                log("%s: unit %s, declared %s" % (name, got[name]["unit"], unit))
                correct = False
            metrics[name] = {"value": got[name]["value"], "unit": unit}
        elif args.trace:
            metrics[name] = {"value": 0, "unit": unit}
        else:
            log("end-to-end metric %s missing" % name)
            correct = False
            metrics[name] = {"value": 0, "unit": unit}

    print(json.dumps(report, sort_keys=False))
    print(json.dumps({"host": {
        "nproc": os.cpu_count(),
        "bench_threads": THREADS[args.workload],
        "loadavg_before": load0,
        "loadavg_after": load1,
        "steal_ticks": steal1 - steal0,
        "run_wall_s": round(wall, 3),
    }}))
    attempted = max(1, int(report.get("attempted", 0)))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": 0 if correct else attempted,
        "metrics": metrics,
    }))
    sys.stdout.flush()
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""A/B table of saved perfbench/run.py outputs.

    python3 tools/perf_ab.py PARENT_DIR CHANGE_DIR [--pairs METRIC]

Each directory holds run.py stdouts, one run per file, named
<workload>-<seed>.out (any name ending in .out is read; the workload,
seed and trace mode come from the run's own report line). Runs pair up
by (workload, trace, seed). For every metric in the result line --
BENCHMARK.json's end_to_end list for --trace 0 runs, its per_layer
list for --trace 1 -- it prints per workload the parent and change
medians with their quartiles, change / parent, and the pairs the
change won in the metric's `better` direction. A change is resolved
when its median moves by more than the parent's inter-quartile range.
--pairs METRIC also lists that metric's every pair.

Exit status 1 when a file holds no result line, a run reports
`correct: false`, or a pair's digests or modelled metrics
(sim_tput_mpps, sim_p99_us, jain, worst_slowdown) differ: a change
meant only to speed the simulator up must leave them identical. It
runs nothing itself.
"""

import argparse
import glob
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MODELLED = ("sim_tput_mpps", "sim_p99_us", "jain", "worst_slowdown")


def read_run(path):
    """(report, result) from one run.py stdout, or None."""
    with open(path) as f:
        lines = [l for l in f.read().splitlines() if l.strip()]
    try:
        report = json.loads(lines[0])
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return None
    if "metrics" not in result or "workload" not in report:
        return None
    return report, result


def load_dir(path, errors):
    """{(workload, trace, seed): (report, result)} for one side."""
    runs = {}
    files = sorted(glob.glob(os.path.join(path, "*.out")))
    if not files:
        errors.append(f"{path}: no .out files")
    for f in files:
        run = read_run(f)
        if run is None:
            errors.append(f"{f}: no result line")
            continue
        report, result = run
        if not result.get("correct"):
            errors.append(f"{f}: correct is false "
                          f"(failed {result.get('failed')} of "
                          f"{result.get('attempted')})")
        key = (report["workload"], report["trace"], report["seed"])
        runs[key] = run
    return runs


def quartiles(xs):
    """(q1, median, q3) with linear interpolation between ranks."""
    s = sorted(xs)

    def at(q):
        pos = q * (len(s) - 1)
        lo = int(pos)
        hi = min(lo + 1, len(s) - 1)
        return s[lo] + (s[hi] - s[lo]) * (pos - lo)

    return at(0.25), at(0.5), at(0.75)


def fmt(v):
    return f"{v:.4g}"


def cell(q):
    return f"{fmt(q[1])} [{fmt(q[0])}, {fmt(q[2])}]"


def won(parent, change, better):
    return change > parent if better == "higher" else change < parent


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", help="directory of the parent's runs")
    ap.add_argument("change", help="directory of the change's runs")
    ap.add_argument("--pairs", action="append", default=[],
                    metavar="METRIC",
                    help="also list every pair of this metric")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    better = {m["name"]: m["better"]
              for m in spec["end_to_end"] + spec["per_layer"]}

    errors = []
    parent = load_dir(args.parent, errors)
    change = load_dir(args.change, errors)
    for key in sorted(set(parent) ^ set(change)):
        side = "parent" if key in parent else "change"
        print(f"unpaired: {key[0]} trace {key[1]} seed {key[2]} "
              f"(only in {side})")

    groups = {}
    for key in sorted(set(parent) & set(change)):
        groups.setdefault(key[:2], []).append(key[2])

    for (workload, trace), seeds in sorted(groups.items()):
        pairs = [(parent[(workload, trace, s)], change[(workload, trace, s)])
                 for s in seeds]
        for seed, (p, c) in zip(seeds, pairs):
            if p[0].get("digests") != c[0].get("digests"):
                errors.append(f"{workload} seed {seed}: digests differ: "
                              f"{p[0].get('digests')} vs "
                              f"{c[0].get('digests')}")
            for m in MODELLED:
                pv = p[1]["metrics"].get(m, {}).get("value")
                cv = c[1]["metrics"].get(m, {}).get("value")
                if pv != cv:
                    errors.append(f"{workload} seed {seed}: {m} "
                                  f"differs: {pv} vs {cv}")

        print(f"\n== {workload}, trace {trace}: {len(seeds)} pairs, "
              f"seeds {', '.join(map(str, seeds))}")
        print(f"{'metric':<28} {'unit':<9} {'better':<6} "
              f"{'parent median [q1, q3]':>28} "
              f"{'change median [q1, q3]':>28} {'chg/par':>7} "
              f"{'won':>6} resolved")
        for name, meta in pairs[0][0][1]["metrics"].items():
            pv = [p[1]["metrics"][name]["value"] for p, _ in pairs]
            cv = [c[1]["metrics"][name]["value"] for _, c in pairs]
            pq, cq = quartiles(pv), quartiles(cv)
            way = better[name]
            wins = sum(won(a, b, way) for a, b in zip(pv, cv))
            ratio = fmt(cq[1] / pq[1]) if pq[1] else "-"
            resolved = abs(cq[1] - pq[1]) > pq[2] - pq[0]
            print(f"{name:<28} {meta['unit']:<9} {way:<6} "
                  f"{cell(pq):>28} {cell(cq):>28} {ratio:>7} "
                  f"{wins:>2}/{len(seeds):<3} "
                  f"{'yes' if resolved else 'no'}")
            if name in args.pairs:
                for seed, a, b in zip(seeds, pv, cv):
                    print(f"    seed {seed}: {fmt(a)} -> {fmt(b)}")

    for e in errors:
        print("ERROR " + e)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())

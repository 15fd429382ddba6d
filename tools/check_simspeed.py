#!/usr/bin/env python3
"""Regression gate for bench/simspeed.

Compares a fresh BENCH_simspeed.json against the checked-in baseline
(bench/simspeed_baseline.json) and fails on:

  * a workload drift: for the same scenario, policy, container count,
    frame size and simulated duration, the simulator is
    deterministic, so the packet-event counts must match the baseline
    exactly.  A mismatch means the *model* changed;
    refresh the baseline with --update (and explain the change in the
    commit).

  * a speed regression: pkts_per_wall_s more than --tolerance (default
    15%) below the baseline.  Speed is wall-clock and therefore noisy
    on shared runners; the count check above is the deterministic part
    of the gate, the speed check catches "the hot path got slower"
    mistakes that survive count equality.

A speed *improvement* beyond the tolerance only prints a hint to
refresh the baseline; it never fails the gate.
"""

import argparse
import json
import shutil
import sys

COUNT_KEYS = ("stage_packet_events", "rx_packets", "tx_packets",
              "quanta")
CONFIG_KEYS = ("scenario", "policy", "containers", "frame_bytes",
               "sim_seconds", "legs")


def load(path):
    with open(path) as f:
        return json.load(f)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("measured", help="fresh BENCH_simspeed.json")
    ap.add_argument("baseline", help="checked-in baseline JSON")
    ap.add_argument("--tolerance", type=float, default=0.15,
                    help="allowed fractional slowdown (default 0.15)")
    ap.add_argument("--update", action="store_true",
                    help="overwrite the baseline with the measurement")
    args = ap.parse_args()

    measured = load(args.measured)

    if args.update:
        shutil.copyfile(args.measured, args.baseline)
        print(f"baseline updated: {args.baseline} <- {args.measured}")
        return 0

    baseline = load(args.baseline)
    failed = False

    mismatched_config = [k for k in CONFIG_KEYS
                         if measured.get(k) != baseline.get(k)]
    if mismatched_config:
        for k in mismatched_config:
            print(f"CONFIG MISMATCH {k}: measured {measured.get(k)!r}"
                  f" vs baseline {baseline.get(k)!r}")
        print("not comparable: rerun simspeed with the baseline's "
              "configuration or refresh the baseline with --update")
        return 1

    for k in COUNT_KEYS:
        if measured.get(k) != baseline.get(k):
            print(f"WORKLOAD DRIFT {k}: measured {measured.get(k)}"
                  f" vs baseline {baseline.get(k)}")
            failed = True
    if failed:
        print("the simulated workload is deterministic for a fixed "
              "configuration; a count change means the model changed. "
              "If intentional, refresh with --update.")

    base_speed = float(baseline["pkts_per_wall_s"])
    speed = float(measured["pkts_per_wall_s"])
    ratio = speed / base_speed if base_speed > 0 else float("inf")
    print(f"pkts_per_wall_s: measured {speed:,.0f} vs baseline "
          f"{base_speed:,.0f} ({ratio:.2f}x)")
    if ratio < 1.0 - args.tolerance:
        print(f"SPEED REGRESSION: more than "
              f"{args.tolerance:.0%} below baseline")
        failed = True
    elif ratio > 1.0 + args.tolerance:
        print("speed improved beyond tolerance; consider refreshing "
              "the baseline with --update")

    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Run the headline comparison: both block configurations, both bundled
synthetic workloads, all four memory modes, speedups against the raw-port
baseline.

The full grid is 16 timed simulations and takes a few minutes on one core;
--quick shrinks the tensors ~20x for a fast smoke run.
"""

import argparse
import math
import sys

from lmbsim import config as cfgmod
from lmbsim.cli import SWEEP_ORDER, run_mode
from lmbsim.engine import REFERENCE_SPEEDUP


def run_one(table, workload, mode, quick):
    settings = cfgmod.default_settings()
    cfgmod.apply_preset(settings, table)
    cfgmod.apply_preset(settings, workload)
    if quick:
        nnz = int(settings["tensor"]["nnz"]) // 20
        settings["tensor"]["nnz"] = str(max(nnz, 100))
    return run_mode(settings, mode)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--tables", nargs="+",
                    default=["table2-config-a", "table2-config-b"])
    ap.add_argument("--workloads", nargs="+",
                    default=["synth01-mini", "synth02-mini"])
    ap.add_argument("--quick", action="store_true",
                    help="shrink the workloads ~20x")
    args = ap.parse_args(argv)

    header = (f"{'config':18s} {'workload':14s} {'mode':12s} {'cycles':>12s} "
              f"{'cyc/elem':>9s} {'speedup':>8s} {'published':>10s} "
              f"{'bus eff':>8s}")
    print(header)
    print("-" * len(header))
    speedups = {m: [] for m in SWEEP_ORDER}
    for table in args.tables:
        for workload in args.workloads:
            rows = {m: run_one(table, workload, m, args.quick)
                    for m in SWEEP_ORDER}
            base = rows["ip-only"]["total_cycles"]
            for mode in SWEEP_ORDER:
                rep = rows[mode]
                cycles = rep["total_cycles"]
                bus = rep["bus"]
                eff = bus["useful_bytes"] / bus["bytes"] if bus["bytes"] else 0.0
                speedups[mode].append(base / cycles)
                print(f"{table:18s} {workload:14s} {mode:12s} "
                      f"{cycles:12d} {cycles / rep['workload']['nnz']:9.2f} "
                      f"{base / cycles:8.2f} "
                      f"{REFERENCE_SPEEDUP[mode]:10.2f} {eff:8.1%}")
            print()
    print("geometric-mean speedup over all runs "
          "(published numbers are the same aggregate):")
    for mode in SWEEP_ORDER:
        gmean = math.exp(sum(math.log(s) for s in speedups[mode])
                         / len(speedups[mode]))
        print(f"  {mode:12s} {gmean:8.2f}   published {REFERENCE_SPEEDUP[mode]:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

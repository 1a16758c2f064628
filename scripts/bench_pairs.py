#!/usr/bin/env python3
"""Alternating parent/change pairs of the benchmark, summarized per metric.

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload NAME \
        [--seed N] [--pairs 10] [--seconds 36]

Each pair runs `perfbench/run.py --trace 0` once in each checkout, in a
fresh process from that checkout's root; even pairs run the parent first,
odd pairs the change first, so a drift of the host falls on both sides.  A
run whose last line does not report `correct` with `failed` 0 stops the
script.  For each end-to-end metric that BENCHMARK.json (at the root of this
checkout) declares, it prints each side's median and quartiles, the ratio of
the change's median to the parent's, how many pairs the change won (pair
by pair, by the metric's better direction, with ties counting for neither
side) and a verdict, the first of these that holds:

    better      the change won at least 9/10 of the pairs, and its median
                is ahead of the parent's by more than the parent's IQR
                (the distance between its quartiles)
    worse       the change's median is behind the parent's by more than
                the metric's `bound` (a share of the parent's median)
    unresolved  the parent's IQR is wider than bound x its median, and not
                every change run beats every parent run
    same        anything else

It exits 1 when any metric's verdict is `worse`, else 0.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def quartiles(values):
    """(first quartile, median, third quartile), inclusive method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def verdict(row, sign, bound, p, c):
    """better, worse, unresolved or same (see the module docstring) for a
    summary row of samples `p` and `c`; `sign` is 1 when higher is better,
    else -1."""
    base = row["parent"][1]
    iqr = row["parent_iqr"]
    ahead = sign * (row["change"][1] - base)
    if row["wins"] >= 0.9 * row["pairs"] and ahead > iqr:
        return "better"
    if -ahead > bound * abs(base):
        return "worse"
    if iqr > bound * abs(base) and not all(sign * (b - a) > 0
                                            for a in p for b in c):
        return "unresolved"
    return "same"


def summarize(metrics, parent, change):
    """One row per metric from paired samples.

    `metrics` is BENCHMARK.json's end_to_end list; `parent` and `change` map
    a metric name to its values, pair i on each side being one pair.
    """
    rows = []
    for m in metrics:
        name = m["name"]
        p, c = parent[name], change[name]
        sign = 1 if m["better"] == "higher" else -1
        wins = sum(1 for a, b in zip(p, c) if sign * (b - a) > 0)
        pq, cq = quartiles(p), quartiles(c)
        row = {
            "name": name, "unit": m["unit"],
            "parent": pq, "change": cq,
            "ratio": cq[1] / pq[1] if pq[1] else float("nan"),
            "parent_iqr": pq[2] - pq[0],
            "wins": wins, "pairs": len(p),
        }
        row["verdict"] = verdict(row, sign, m["bound"], p, c)
        rows.append(row)
    return rows


def format_rows(rows):
    lines = [f"{'metric':<18} {'parent q1/med/q3':>32} "
             f"{'change q1/med/q3':>32} {'ratio':>7} {'wins':>6} verdict"]
    for r in rows:
        p = "/".join(f"{v:.4g}" for v in r["parent"])
        c = "/".join(f"{v:.4g}" for v in r["change"])
        lines.append(f"{r['name']:<18} {p:>32} {c:>32} {r['ratio']:>7.3f} "
                     f"{r['wins']:>3}/{r['pairs']} {r['verdict']}")
    return lines


def run_once(checkout, workload, seed, seconds):
    """The metrics of one benchmark run in `checkout`; stops on a bad run."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                          check=False)
    lines = proc.stdout.strip().splitlines()
    try:
        last = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        last = {}
    if proc.returncode or not last.get("correct") or last.get("failed") != 0:
        sys.exit(f"bench_pairs: run in {checkout} not correct "
                 f"(exit {proc.returncode}): {proc.stderr.strip()[-500:]}")
    return {k: v["value"] for k, v in last["metrics"].items()}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=36.0)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        metrics = json.load(fh)["end_to_end"]
    sides = {"parent": args.parent, "change": args.change}
    samples = {side: {m["name"]: [] for m in metrics} for side in sides}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            values = run_once(sides[side], args.workload, args.seed,
                              args.seconds)
            for m in metrics:
                samples[side][m["name"]].append(values[m["name"]])
        print(f"# pair {i + 1}: " + " ".join(
            f"{side} {samples[side][metrics[0]['name']][-1]:.4g}"
            for side in order), flush=True)
    print(f"# {args.workload} seed {args.seed}, {args.pairs} pairs of "
          f"{args.seconds:g} s runs")
    rows = summarize(metrics, samples["parent"], samples["change"])
    for line in format_rows(rows):
        print(line)
    print(json.dumps(samples))
    return 1 if any(r["verdict"] == "worse" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
